"""The benchmark's three workloads.

Each workload is one process and no worker pool.  ``setup`` prepares
everything the timed phase needs (and may run several times, each in a
fresh directory; the last one is kept), ``run_round`` is one fixed unit
of timed work, and ``check`` verifies that round's outputs after the
clock has stopped.  A round's operations are its cells, lanes,
predictions or requests; ``check`` returns one failure message per
operation whose output is wrong.

Output checks:

* every workload compares its outputs with the digests committed in
  ``digests.json`` when it runs on :data:`DEFAULT_SEED`;
* on every seed it also checks cross-path equalities that need no
  committed data (see each ``check``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.batchsim.grid import cell_label, expand_grid, parse_grid_axis
from repro.experiments.executor import Cell, SweepExecutor
from repro.experiments.runner import FIG10_SCHEMES, TRAFFIC_SCHEMES
from repro.experiments.store import (
    ResultStore,
    canonical_json,
    replay_cell_key,
    trace_key,
)
from repro.gpu.config import GPUConfig
from repro.loadtest.client import AsyncServeClient, LoadClientError
from repro.loadtest.harness import LoadTestConfig, percentile
from repro.loadtest.mix import MixConfig, build_population, build_schedule
from repro.predict.executor import PredictSweepExecutor
from repro.serve.cluster import ClusterScheduler
from repro.serve.jobs import TERMINAL_STATES
from repro.serve.protocol import parse_job_request
from repro.serve.server import serve_async
from repro.trace.record import record_workload
from repro.trace.sweep import ReplaySweepExecutor, TraceStore
from repro.workloads import make_workload
from repro.workloads.registry import CI_APPS

#: The seed whose outputs ``digests.json`` pins.
DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Paper Fig. 10: DLP's geomean IPC gain over the baseline on CI apps.
PAPER_DLP_IPC_GAIN = 1.44


def digest(payload: Dict[str, Any]) -> str:
    """Short content digest of one output's counters."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def _digest_table() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}


def load_digests(workload: str) -> Dict[str, str]:
    return dict(_digest_table().get(workload, {}))


def save_digests(workload: str, observed: Dict[str, str]) -> None:
    table = _digest_table()
    table[workload] = dict(sorted(observed.items()))
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: What one fresh process must import to run this workload.
    imports: Tuple[str, ...] = ()
    #: Nominal wall time of one round on the reference host (2-core
    #: Xeon); ``--seconds`` is divided by it to fix the round count.
    round_s = 1.0

    def __init__(self, seed: int, pinned: Dict[str, str]) -> None:
        self.seed = seed
        #: Digests to compare against (empty off the default seed).
        self.pinned = pinned
        #: Digests observed this run (written by ``--update-digests``).
        self.observed: Dict[str, str] = {}

    def config(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def run_round(self, work: Path, pause: Callable[[], None]) -> Any:
        """One round of timed work; ``pause()`` marks a point between
        independent parts where the runner may take a calibration slice."""
        raise NotImplementedError

    def check(self, outputs: Any) -> Tuple[int, List[str]]:
        """(operations attempted, failure messages) for one round."""
        raise NotImplementedError

    def summary(self, outputs: Any, wall_s: float) -> Dict[str, float]:
        """Workload-specific figures of one round (printed, recorded)."""
        return {}

    def layer_values(self, outputs: Any) -> Dict[str, float]:
        """Per-layer values the tracer cannot see (summed results)."""
        return {}

    def latencies(self, outputs: Any) -> List[float]:
        """Per-operation latencies worth pooling into percentiles."""
        return []

    def close(self) -> None:
        pass

    def _pin(self, label: str, payload: Dict[str, Any]) -> List[str]:
        """Record ``payload``'s digest; a problem if it differs from the
        committed one."""
        seen = digest(payload)
        self.observed[label] = seen
        want = self.pinned.get(label)
        if self.pinned and want != seen:
            return [f"digest {seen} != committed {want}"]
        return []


def _stored(store: ResultStore, key: str, result) -> List[str]:
    """A problem unless the store hands back exactly ``result``."""
    stored = store.get(key)
    if stored is None or stored.to_dict() != result.to_dict():
        return ["store entry differs from the result"]
    return []


def _verdict(failures: List[str], label: str, problems: List[str]) -> None:
    """One failure message per failed operation."""
    if problems:
        failures.append(f"{label}: {'; '.join(problems)}")


# ----------------------------------------------------------------------
# timing-fig10
# ----------------------------------------------------------------------

class TimingFig10(Workload):
    """The cold Fig. 10 grid through the timing simulator."""

    name = "timing-fig10"
    imports = ("repro.experiments.executor", "repro.experiments.store")
    round_s = 22.0
    APPS = ("KM", "SS", "SR2K", "BFS", "HS")
    NUM_SMS = 2
    SCALE = 0.25
    ENGINE = "fast"

    def config(self) -> Dict[str, Any]:
        return {"apps": list(self.APPS), "schemes": list(FIG10_SCHEMES),
                "num_sms": self.NUM_SMS, "scale": self.SCALE,
                "engine": self.ENGINE, "seed": self.seed}

    def setup(self, work: Path) -> None:
        self.cells = [
            Cell.make(app, scheme, num_sms=self.NUM_SMS, scale=self.SCALE,
                      seed=self.seed, engine=self.ENGINE)
            for app in self.APPS for scheme in FIG10_SCHEMES
        ]
        self.keys = [cell.key() for cell in self.cells]

    def run_round(self, work: Path, pause: Callable[[], None]):
        store = ResultStore(work / "store")
        executor = SweepExecutor(store=store, jobs=1)
        results: List[Any] = []
        # One cell per call, so the runner can calibrate between cells:
        # run_cells does the same store read, simulation and write for
        # each cell either way.
        for index, cell in enumerate(self.cells):
            if index:
                pause()
            results += executor.run_cells([cell])
        return store, results

    def check(self, outputs) -> Tuple[int, List[str]]:
        store, results = outputs
        failures: List[str] = []
        for cell, key, result in zip(self.cells, self.keys, results):
            label = f"{cell.abbr}/{cell.scheme}"
            _verdict(failures, label, self._pin(label, result.to_dict())
                     + _stored(store, key, result))
        return len(self.cells), failures

    def _by_cell(self, results) -> Dict[Tuple[str, str], Any]:
        return {(c.abbr, c.scheme): r for c, r in zip(self.cells, results)}

    def summary(self, outputs, wall_s: float) -> Dict[str, float]:
        _store, results = outputs
        by_cell = self._by_cell(results)
        ci = [app for app in self.APPS if app in CI_APPS]
        gain = math.exp(sum(
            math.log(by_cell[(app, "dlp")].ipc / by_cell[(app, "baseline")].ipc)
            for app in ci) / len(ci))
        insns = sum(r.warp_insns for r in results)
        return {"sim_warp_insns_per_s": insns / wall_s, "dlp_ipc_gain": gain}

    def layer_values(self, outputs) -> Dict[str, float]:
        _store, results = outputs
        return {
            "sim.cycles": sum(r.cycles for r in results),
            "sim.warp_insns": sum(r.warp_insns for r in results),
            "sim.l1d_accesses": sum(r.l1d.accesses for r in results),
            "sim.l1d_hits": sum(r.l1d.hits_total for r in results),
            "sim.l1d_bypasses": sum(r.l1d.bypasses for r in results),
            "sim.ldst_stall_cycles": sum(r.ldst_stall_cycles for r in results),
            "sim.icnt_bytes": sum(r.interconnect.get("total_bytes", 0)
                                  for r in results),
        }


# ----------------------------------------------------------------------
# replay-ablation
# ----------------------------------------------------------------------

class ReplayAblation(Workload):
    """Fast replay, the batch-engine Fig. 9 frontier and predictions
    over traces captured during set-up."""

    name = "replay-ablation"
    imports = ("repro.trace.sweep", "repro.batchsim.engine",
               "repro.predict.executor", "repro.experiments.store")
    round_s = 3.0
    APPS = ("BFS", "KM", "SR2K")
    NUM_SMS = 2
    SCALE = 0.5
    GRID = ("nasc=0:4", "pd_bits=2,4,6")
    #: DLP's own knob values: this frontier point is the plain dlp cell.
    DLP_DEFAULTS = {"nasc": 4, "pd_bits": 4}

    def config(self) -> Dict[str, Any]:
        return {"apps": list(self.APPS), "schemes": list(TRAFFIC_SCHEMES),
                "grid": list(self.GRID), "num_sms": self.NUM_SMS,
                "scale": self.SCALE, "seed": self.seed}

    def setup(self, work: Path) -> None:
        config = GPUConfig().scaled(self.NUM_SMS)
        traces = TraceStore(work / "traces")
        for app in self.APPS:
            path = traces.path_for(
                trace_key(app, config, scale=self.SCALE, seed=self.seed))
            record_workload(make_workload(app, self.SCALE, seed=self.seed),
                            config, path)
        self.trace_dir = traces.root
        self.axes = [parse_grid_axis(text) for text in self.GRID]
        self.default_label = cell_label(self.DLP_DEFAULTS)
        if self.DLP_DEFAULTS not in expand_grid(self.axes):
            raise ValueError("the frontier grid must contain DLP's defaults")

    def run_round(self, work: Path, pause: Callable[[], None]):
        store = ResultStore(work / "store")
        shape = dict(num_sms=self.NUM_SMS, scale=self.SCALE, seed=self.seed)
        fast = ReplaySweepExecutor(store=store, trace_dir=self.trace_dir,
                                   engine="fast")
        cells = fast.run_sweep(self.APPS, TRAFFIC_SCHEMES, **shape)
        batch = ReplaySweepExecutor(store=store, trace_dir=self.trace_dir,
                                    engine="batch")
        grids = {app: batch.run_grid(app, "dlp", self.axes, **shape)
                 for app in self.APPS}
        predictions = PredictSweepExecutor(trace_dir=self.trace_dir).run_sweep(
            self.APPS, TRAFFIC_SCHEMES, **shape)
        recorded = fast.stats.recorded + batch.stats.recorded
        return store, cells, grids, predictions, recorded

    def _key(self, app: str, scheme: str, kwargs: Dict[str, Any]) -> str:
        return replay_cell_key(app, scheme, GPUConfig().scaled(self.NUM_SMS),
                               scale=self.SCALE, seed=self.seed,
                               policy_kwargs=kwargs)

    def check(self, outputs) -> Tuple[int, List[str]]:
        store, cells, grids, predictions, recorded = outputs
        if recorded:
            raise RuntimeError(f"{recorded} trace(s) were captured in the "
                               f"timed phase; set-up must capture them all")
        failures: List[str] = []
        combos = expand_grid(self.axes)
        for app in self.APPS:
            for scheme in TRAFFIC_SCHEMES:
                label = f"fast/{app}/{scheme}"
                result = cells[app][scheme]
                _verdict(failures, label, self._pin(label, result.to_dict())
                         + _stored(store, self._key(app, scheme, {}), result))
            for combo in combos:
                lane = cell_label(combo)
                label = f"lane/{app}/{lane}"
                result = grids[app][lane]
                problems = self._pin(label, result.to_dict()) \
                    + _stored(store, self._key(app, "dlp", combo), result)
                if lane == self.default_label and \
                        result.to_dict() != cells[app]["dlp"].to_dict():
                    problems.append("differs from the fast-engine dlp cell")
                _verdict(failures, label, problems)
            for scheme in TRAFFIC_SCHEMES:
                label = f"predict/{app}/{scheme}"
                prediction = predictions[app][scheme]
                problems = self._pin(label, prediction.to_dict())
                loads = cells[app][scheme].l1d.loads
                if prediction.reads != loads:
                    problems.append(f"profiled {prediction.reads} reads, "
                                    f"replay saw {loads}")
                _verdict(failures, label, problems)
        attempted = len(self.APPS) * (2 * len(TRAFFIC_SCHEMES) + len(combos))
        return attempted, failures

    def summary(self, outputs, wall_s: float) -> Dict[str, float]:
        _store, cells, grids, predictions, _recorded = outputs
        ops = (sum(len(v) for v in cells.values())
               + sum(len(v) for v in grids.values())
               + sum(len(v) for v in predictions.values()))
        return {"cells_per_s": ops / wall_s}

    def layer_values(self, outputs) -> Dict[str, float]:
        _store, cells, grids, _predictions, _recorded = outputs
        return {"replay.l1d_accesses": sum(
            r.l1d.accesses
            for table in (*cells.values(), *grids.values())
            for r in table.values())}


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------

class ServeWarm(Workload):
    """A closed loop of clients against a self-hosted cluster whose
    store already holds every requested cell."""

    name = "serve-warm"
    imports = ("repro.serve.server", "repro.serve.cluster",
               "repro.loadtest.client", "repro.experiments.executor")
    round_s = 1.5
    CLIENTS = 2
    REQUESTS_PER_CLIENT = 250
    #: Schedule length; rounds walk it cyclically.
    SCHEDULE = 20000
    #: A request unanswered this long fails (the run must end in 180 s).
    REQUEST_DEADLINE_S = 30.0

    def __init__(self, seed: int, pinned: Dict[str, str]) -> None:
        super().__init__(seed, pinned)
        self.mix = MixConfig(
            population=24, predict_fraction=0.1,
            apps=("MM", "BFS", "HS", "BT"), schemes=("baseline", "dlp"),
            sms=1, scale=0.1, seed=seed)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._cursor = 0

    def config(self) -> Dict[str, Any]:
        mix = self.mix
        return {"population": mix.population, "apps": list(mix.apps),
                "schemes": list(mix.schemes), "sms": mix.sms,
                "scale": mix.scale, "predict_fraction": mix.predict_fraction,
                "clients": self.CLIENTS, "connections": self.CLIENTS,
                "workers": 1, "requests_per_round":
                    self.CLIENTS * self.REQUESTS_PER_CLIENT,
                "seed": self.seed}

    def setup(self, work: Path) -> None:
        self.close()
        self.population = build_population(self.mix)
        self.schedule = build_schedule(self.mix, self.SCHEDULE)
        store = ResultStore(work / "store")
        cells = [parse_job_request(body).units[0].cell(engine="fast")
                 for body in self.population]
        results = SweepExecutor(store=store, jobs=1).run_cells(cells)
        #: Per rank: the stored payload every answer must equal, and
        #: whether that entry itself passed its checks.
        self.expected: List[Dict[str, Any]] = []
        self.entry_problems: List[List[str]] = []
        for rank, (cell, result) in enumerate(zip(cells, results)):
            label = f"rank{rank:02d}/{cell.abbr}/{cell.scheme}"
            self.entry_problems.append(self._pin(label, result.to_dict())
                                       + _stored(store, cell.key(), result))
            self.expected.append(result.to_dict())
        # The server runs on the same event loop as the clients, as a
        # task, so no thread of the benchmark's own competes with it for
        # the interpreter lock: a request's latency is its own work.
        self.loop = asyncio.new_event_loop()
        self.scheduler = ClusterScheduler(store=store, workers=1)
        self._stop = asyncio.Event()
        ready = asyncio.Event()
        self._server = self.loop.create_task(serve_async(
            host="127.0.0.1", port=0, scheduler=self.scheduler, ready=ready,
            stop_event=self._stop, log=lambda *args, **kwargs: None))
        self.loop.run_until_complete(ready.wait())
        self.port: int = ready.port  # type: ignore[attr-defined]
        self._cells: Dict[str, Any] = {}

    def run_round(self, work: Path, pause: Callable[[], None]):
        total = self.CLIENTS * self.REQUESTS_PER_CLIENT
        slots = [self.schedule[(self._cursor + i) % self.SCHEDULE]
                 for i in range(total)]
        self._cursor += total
        assert self.loop is not None
        return self.loop.run_until_complete(self._drive(slots))

    async def _drive(self, slots: List[Tuple[int, bool]]) -> List[Dict[str, Any]]:
        outcomes: List[Dict[str, Any]] = []

        async def client_loop(index: int) -> None:
            # One request in flight per client, so at most CLIENTS
            # connections are open at once.
            client = AsyncServeClient("127.0.0.1", self.port,
                                      timeout=self.REQUEST_DEADLINE_S)
            mine = slots[index::self.CLIENTS]
            for rank, predict in mine:
                body = dict(self.population[rank])
                body["client"] = f"client-{index}"
                if predict:
                    body["predict"] = True
                outcome: Dict[str, Any] = {"rank": rank, "predict": predict,
                                           "polls": 0}
                outcomes.append(outcome)
                t0 = asyncio.get_running_loop().time()
                try:
                    status, doc = await client.request("POST", "/jobs", body)
                    if status != 200 or not isinstance(doc, dict):
                        outcome["error"] = f"submit -> {status}: {doc}"
                        continue
                    final = await self._poll(client, doc["id"], outcome,
                                             t0 + self.REQUEST_DEADLINE_S)
                except LoadClientError as exc:
                    outcome["error"] = str(exc)
                    continue
                if final is not None:
                    outcome["latency_s"] = asyncio.get_running_loop().time() - t0
                    outcome["final"] = final

        await asyncio.gather(*(client_loop(i) for i in range(self.CLIENTS)))
        return outcomes

    @staticmethod
    async def _poll(client: AsyncServeClient, job_id: str,
                    outcome: Dict[str, Any], deadline: float,
                    ) -> Optional[Dict[str, Any]]:
        """Poll until the job settles, with the loadtest client's backoff;
        ``None`` (and ``outcome["error"]``) when it never does."""
        poll = LoadTestConfig()
        delay = poll.poll_initial
        while True:
            outcome["polls"] += 1
            status, doc = await client.request("GET", f"/jobs/{job_id}")
            if status != 200 or not isinstance(doc, dict):
                outcome["error"] = f"status -> {status}: {doc}"
                return None
            if doc.get("state") in TERMINAL_STATES:
                return doc
            if asyncio.get_running_loop().time() >= deadline:
                outcome["error"] = f"job {job_id} still {doc.get('state')}"
                return None
            await asyncio.sleep(delay)
            delay = min(poll.poll_max, delay * poll.poll_factor)

    def check(self, outputs) -> Tuple[int, List[str]]:
        failures: List[str] = []
        for outcome in outputs:
            rank = outcome["rank"]
            final = outcome.get("final")
            if final is None:
                _verdict(failures, f"rank {rank}", [outcome["error"]])
                continue
            if final.get("state") != "done":
                _verdict(failures, f"rank {rank}",
                         [f"job ended {final.get('state')}"])
                continue
            payload = dict(final["results"][0]["result"])
            tier = payload.pop("tier", None)
            problems = list(self.entry_problems[rank])
            if payload != self.expected[rank]:
                problems.append("served payload differs from the pre-warmed "
                                "store entry")
            if outcome["predict"] and tier != "exact":
                problems.append(f"predict request answered from tier "
                                f"{tier!r}, not the store")
            _verdict(failures, f"rank {rank}", problems)
        return len(outputs), failures

    def summary(self, outputs, wall_s: float) -> Dict[str, float]:
        return {"throughput_rps": len(outputs) / wall_s}

    def latencies(self, outputs) -> List[float]:
        return [o["latency_s"] for o in outputs if "latency_s" in o]

    def layer_values(self, outputs) -> Dict[str, float]:
        """Poll count, and the server's cell counters (what ``/metrics``
        serves) over this round."""
        cells = self.scheduler.metrics_snapshot()["cells"]
        before, self._cells = self._cells, cells
        polls = sum(o["polls"] for o in outputs)
        return {
            "loadtest.polls_per_request": polls / max(1, len(outputs)),
            "serve.simulated": cells.get("simulated", 0)
            - before.get("simulated", 0),
            "serve.store_hits": cells.get("store_hits", 0)
            - before.get("store_hits", 0),
        }

    def close(self) -> None:
        if self.loop is None:
            return
        self._stop.set()
        self.loop.run_until_complete(self._server)
        self.loop.run_until_complete(self.scheduler.shutdown())
        self.loop.close()
        self.loop = None


def latency_summary(samples: List[float]) -> Dict[str, float]:
    """Pooled latencies: p50, p99 and how many samples lie beyond p99."""
    latencies = sorted(samples)
    p99 = percentile(latencies, 0.99)
    return {
        "latency_p50_ms": 1e3 * (percentile(latencies, 0.50) or 0.0),
        "latency_p99_ms": 1e3 * (p99 or 0.0),
        "latency_samples": len(latencies),
        "beyond_p99": sum(1 for v in latencies if p99 is not None and v > p99),
    }


WORKLOADS = {cls.name: cls for cls in (TimingFig10, ReplayAblation, ServeWarm)}
